// Package core marks the paper's primary contribution within this
// repository's layout. The implementation lives in the sibling packages:
//
//   - internal/eclat — the Eclat algorithm itself (the four-phase
//     parallel form of section 5 on the simulated cluster, whose
//     program also runs the hybrid host-level variant, the local
//     class-queue engine, the external-memory transformation, and
//     the MaxEclat and closed extensions);
//   - internal/eqclass — the equivalence-class itemset clustering and
//     greedy scheduling of sections 4.1 and 5.2.1;
//   - internal/tidlist — the vertical tid-list layout and
//     (short-circuited) intersections of sections 4.2 and 5.3.
//
// Everything else under internal/ is substrate (database, generator,
// simulated cluster) or baseline (Apriori, Count/Data/Candidate
// Distribution, Partition, Sampling, DHP). The public API is the
// repository root package.
package core
