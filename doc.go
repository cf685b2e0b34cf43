// Package alpusim is a from-scratch Go reproduction of "A Hardware
// Acceleration Unit for MPI Queue Processing" (Brightwell, Hemmert,
// Murphy, Rodrigues, Underwood — IPDPS/IPPS 2005): the associative list
// processing unit (ALPU) for MPI matching, the NIC/host simulation
// environment it was evaluated in, the prototype MPI implementation, the
// two queue benchmarks behind Figures 5 and 6, and an FPGA area/timing
// estimator that regenerates Tables IV and V.
//
// The library lives under internal/ (see DESIGN.md for the module map);
// the runnable surfaces are:
//
//   - cmd/alpusim:    rerun any experiment (figures, tables, anchors);
//     tab4/tab5 print Tables IV/V next to the published values
//   - cmd/queueprobe: drive the ALPU device model interactively
//   - cmd/queuestudy: the refs [8]/[9] application queue study
//   - cmd/alpurtl:    emit the ALPU as Verilog
//   - examples/...:   quickstart, preposted, unexpected, alpudirect
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation section, plus ablations for the design choices
// the paper discusses (block size, use threshold, hash-table queues,
// compaction policy, insert batching).
package alpusim
