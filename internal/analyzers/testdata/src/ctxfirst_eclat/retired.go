package eclat

import "context"

// The class-task engine refactor deleted the non-Options entry points,
// and the one local core deleted the per-variant local ones;
// re-declaring any of them inside the eclat package is a diagnostic.

func Mine(cl, d any, minsup int) error { return nil } // want `declaration of retired repro/internal/eclat\.Mine; the name was deleted in favor of eclat\.MineOpts and must not return`

func MineHybrid(cl, d any, minsup int) error { return nil } // want `declaration of retired repro/internal/eclat\.MineHybrid; the name was deleted in favor of eclat\.MineHybridOpts and must not return`

func MineMaximal(ctx context.Context, d any, minsup int) error { return ctx.Err() } // want `declaration of retired repro/internal/eclat\.MineMaximal; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

func MineClosed(ctx context.Context, d any, minsup int) error { return ctx.Err() } // want `declaration of retired repro/internal/eclat\.MineClosed; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

func MineSequentialDiffsets(ctx context.Context, d any, minsup int) error { return ctx.Err() } // want `declaration of retired repro/internal/eclat\.MineSequentialDiffsets; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

func MineClosedCHARM(ctx context.Context, d any, minsup int) error { return ctx.Err() } // want `declaration of retired repro/internal/eclat\.MineClosedCHARM; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

func MineSequential(d any, minsup int) error { return nil } // want `declaration of retired repro/internal/eclat\.MineSequential; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

func MineSequentialOpts(ctx context.Context, d any, minsup int, opts any) error { return ctx.Err() } // want `declaration of retired repro/internal/eclat\.MineSequentialOpts; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

func MineMaximalOpts(ctx context.Context, d any, minsup int, opts any) error { return ctx.Err() } // want `declaration of retired repro/internal/eclat\.MineMaximalOpts; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

func MineClosedOpts(ctx context.Context, d any, minsup int, opts any) error { return ctx.Err() } // want `declaration of retired repro/internal/eclat\.MineClosedOpts; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

func MineSequentialDiffsetsOpts(ctx context.Context, d any, minsup int, opts any) error { return ctx.Err() } // want `declaration of retired repro/internal/eclat\.MineSequentialDiffsetsOpts; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

func MineClosedCHARMOpts(ctx context.Context, d any, minsup int, opts any) error { return ctx.Err() } // want `declaration of retired repro/internal/eclat\.MineClosedCHARMOpts; the name was deleted in favor of eclat\.MineParallelLocal with Options\.Policy and must not return`

// The kept names remain declarable: the two local entry points and the
// simulated-cluster forms.
func MineParallelLocal(ctx context.Context, d any, minsup int, opts any) error { return ctx.Err() }

func MineVerticalLocal(ctx context.Context, in any, minsup int, opts any) error { return ctx.Err() }

func MineMaximalParallel(cl, d any, minsup int) error { return nil }
