// Package switchml is a Go implementation of SwitchML, the in-network
// aggregation system for distributed machine learning of Sapio et al.
// (NSDI 2021), together with the substrates needed to reproduce the
// paper's evaluation on commodity hardware.
//
// The package offers three ways to run the aggregation protocol
// (Algorithms 1-4 of the paper):
//
//   - An in-process Cluster connects n worker goroutines to a
//     software switch over channels, for embedding synchronous
//     all-reduce in one process. See NewCluster.
//   - A UDP deployment runs the same protocol over real sockets: a
//     software "parameter aggregator" (the §6 deployment model) and
//     worker clients. The aggregator owns the job's pool size and
//     packet size and tells each worker when it dials. See
//     ListenAggregator and DialAggregator.
//   - A deterministic simulation reproduces the paper's testbed —
//     rack topologies, programmable-switch constraints, packet loss,
//     and the baseline systems (ring all-reduce, halving-doubling,
//     parameter servers). See SimulateRack and the cmd/switchml-bench
//     tool, which regenerates every table and figure.
//
// Gradients are exchanged as 32-bit fixed-point integers scaled by a
// model-dependent factor (Appendix C of the paper); WithScale and
// MaxSafeScale configure the scheme, WithFloat16 selects the
// packed-half mode of §3.7, and the float32 all-reduce methods apply
// the conversion transparently.
package switchml
