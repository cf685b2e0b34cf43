// Package host models the main processor's side of the offloaded MPI:
// per §V-C, "the main processor is only required to dispatch message
// requests to the NIC and wait for request completion". Requests cross
// the host bus with the calibrated latency in each direction, and waiting
// is a completion poll charged on the host CPU.
package host

import (
	"fmt"

	"alpusim/internal/dram"
	"alpusim/internal/memsys"
	"alpusim/internal/nic"
	"alpusim/internal/params"
	"alpusim/internal/proc"
	"alpusim/internal/sim"
)

// Request is the host-side handle for an operation dispatched to the NIC.
// The caller owns it (mpi.Request embeds one); the host refers to it from
// Submit until Wait or Retire, and the completion fills it in.
type Request struct {
	ID     uint64
	Done   bool
	DoneAt sim.Time // when the completion became visible to the host
	Status nic.CompletionStatus
}

// Host is one node's main processor runtime.
type Host struct {
	eng *sim.Engine
	id  int
	mem *memsys.Hierarchy
	nic *nic.NIC

	reqs    map[uint64]*Request
	nextID  uint64
	doneSig *sim.Signal

	completions uint64
}

// New wires a host to its NIC (installing the completion path).
func New(eng *sim.Engine, id int, n *nic.NIC) *Host {
	h := &Host{
		eng:     eng,
		id:      id,
		mem:     memsys.New(params.HostCPU(), dram.New(dram.DefaultConfig())),
		nic:     n,
		reqs:    make(map[uint64]*Request),
		doneSig: sim.NewSignal(eng),
	}
	n.Complete = func(reqID uint64, at sim.Time, st nic.CompletionStatus) {
		// The completion is written toward the host and becomes visible
		// after the host-bus latency.
		if at < eng.Now() {
			at = eng.Now()
		}
		eng.At(at+params.HostBusLatency, func() {
			r := h.reqs[reqID]
			if r == nil {
				panic(fmt.Sprintf("host%d: completion for unknown request %d", h.id, reqID))
			}
			r.Done = true
			r.DoneAt = eng.Now()
			r.Status = st
			h.completions++
			h.doneSig.Raise()
		})
	}
	return h
}

// Mem exposes the host memory hierarchy.
func (h *Host) Mem() *memsys.Hierarchy { return h.mem }

// NIC returns the attached NIC.
func (h *Host) NIC() *nic.NIC { return h.nic }

// Completions reports how many completions the host has observed.
func (h *Host) Completions() uint64 { return h.completions }

// NewID allocates a request id.
func (h *Host) NewID() uint64 {
	h.nextID++
	return h.nextID
}

// Submit charges the library-call cost and dispatches a request descriptor
// to the NIC, resetting the caller's handle r to track it.
func (h *Host) Submit(e *proc.Engine, r *Request, req nic.HostRequest) {
	e.Cycles(params.HostCallCycles)
	*r = Request{ID: req.ID}
	h.reqs[req.ID] = r
	h.nic.SubmitRequest(req)
}

// Wait polls until the request completes, charging the poll loop.
func (h *Host) Wait(e *proc.Engine, r *Request) {
	for !r.Done {
		e.P.WaitCond(h.doneSig, func() bool { return r.Done })
		e.Cycles(params.HostCompletionPoll)
	}
	delete(h.reqs, r.ID)
}

// WaitAnyProgress parks until some completion (for any request) arrives,
// charging one poll iteration. Used by MPI_Waitany-style loops.
func (h *Host) WaitAnyProgress(e *proc.Engine) {
	e.P.WaitSignal(h.doneSig)
	e.Cycles(params.HostCompletionPoll)
}

// Retire removes a request the caller has finished observing (used by
// Waitany, which completes requests without going through Wait).
func (h *Host) Retire(r *Request) { delete(h.reqs, r.ID) }
