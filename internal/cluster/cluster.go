// Package cluster hosts the paper's distributed environment (§VIII-A: a
// 12-machine MPI cluster): the Site interface the coordinator scatters
// stage work through, the Meter every site call reports, and the
// in-process implementation (one LocalSite per fragment). The remote
// package provides the other Site implementation: worker processes
// reached over an RPC transport.
package cluster

import "context"

// CancelPoll adapts ctx into the polling hook the store, partial, lec
// and assembly layers accept; nil when ctx can never be canceled, so the
// hot loops skip the poll entirely.
func CancelPoll(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}
