package repro

import (
	"context"

	"repro/internal/eclat"
)

// MineGood is context-first: no diagnostic.
func MineGood(ctx context.Context, minsup int) error { return ctx.Err() }

func MineNoCtx(minsup int) error { return nil } // want `exported mining entry point MineNoCtx must take context\.Context as its first parameter`

func helper(n int, ctx context.Context) error { return ctx.Err() } // want `function helper has context\.Context as parameter 2`

var _ = func(name string, ctx context.Context) {} // want `function literal has context\.Context as parameter 2`

// unexported, context-first closures and plain functions stay silent.
func quiet(ctx context.Context) { _ = func(ctx context.Context) {} }

func callers(ctx context.Context, minsup int) {
	MineContext(ctx, minsup)             // want `call to deprecated repro\.MineContext; use the context-first repro\.Mine`
	eclat.MineSequentialCtx(ctx, minsup) // want `call to deprecated repro/internal/eclat\.MineSequentialCtx; use the context-first eclat\.MineParallelLocal with Options\.Policy`

	// The non-Options eclat spellings were retired by the class-task
	// engine refactor; every call must go through the Options entry points.
	eclat.Mine(nil, nil, minsup)                   // want `call to deprecated repro/internal/eclat\.Mine; use the context-first eclat\.MineOpts`
	eclat.MineHybrid(nil, nil, minsup)             // want `call to deprecated repro/internal/eclat\.MineHybrid; use the context-first eclat\.MineHybridOpts`
	eclat.MineMaximal(ctx, nil, minsup)            // want `call to deprecated repro/internal/eclat\.MineMaximal; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineClosed(ctx, nil, minsup)             // want `call to deprecated repro/internal/eclat\.MineClosed; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineSequentialDiffsets(ctx, nil, minsup) // want `call to deprecated repro/internal/eclat\.MineSequentialDiffsets; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineClosedCHARM(ctx, nil, minsup)        // want `call to deprecated repro/internal/eclat\.MineClosedCHARM; use the context-first eclat\.MineParallelLocal with Options\.Policy`

	// The per-variant local entry points were folded into the one local
	// core: the search is Options.Policy, the sequential driver Workers: 1.
	eclat.MineSequential(nil, minsup)                         // want `call to deprecated repro/internal/eclat\.MineSequential; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineSequentialOpts(ctx, nil, minsup, nil)           // want `call to deprecated repro/internal/eclat\.MineSequentialOpts; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineMaximalOpts(ctx, nil, minsup, nil)              // want `call to deprecated repro/internal/eclat\.MineMaximalOpts; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineClosedOpts(ctx, nil, minsup, nil)               // want `call to deprecated repro/internal/eclat\.MineClosedOpts; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineSequentialDiffsetsOpts(ctx, nil, minsup, nil)   // want `call to deprecated repro/internal/eclat\.MineSequentialDiffsetsOpts; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineClosedCHARMOpts(ctx, nil, minsup, nil)          // want `call to deprecated repro/internal/eclat\.MineClosedCHARMOpts; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineParallelLocal(ctx, nil, minsup, nil)            // kept: local entry point, no diagnostic
	eclat.MineVerticalLocal(ctx, nil, minsup, nil)            // kept: local entry point, no diagnostic
	eclat.MineOpts(nil, nil, minsup, nil)                     // kept: cluster entry point, no diagnostic

	// The simulated cluster's maximal form was retired: the cluster mines
	// the all-frequent output only.
	eclat.MineMaximalParallel(nil, nil, minsup)          // want `call to deprecated repro/internal/eclat\.MineMaximalParallel; use the context-first eclat\.MineParallelLocal with Options\.Policy`
	eclat.MineMaximalParallelOpts(nil, nil, minsup, nil) // want `call to deprecated repro/internal/eclat\.MineMaximalParallelOpts; use the context-first eclat\.MineParallelLocal with Options\.Policy`
}

// Reintroducing a retired wrapper name is flagged at the declaration,
// even though the signature is context-first.
func MineContext(ctx context.Context, minsup int) error { return ctx.Err() } // want `declaration of retired repro\.MineContext; the name was deleted in favor of repro\.Mine and must not return`

// MineVertical was folded into MineFrom; its name may not come back.
func MineVertical(ctx context.Context, minsup int) error { return ctx.Err() } // want `declaration of retired repro\.MineVertical; the name was deleted in favor of repro\.MineFrom and must not return`
