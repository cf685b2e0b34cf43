// Package dram models main-memory timing with per-bank open-row state:
// "The memory hierarchy was modeled to include contention for open rows on
// the DRAM chips" (§V-B). Accesses that hit the currently open row of a
// bank are cheaper than accesses that force a precharge/activate, and each
// bank serialises its accesses.
package dram

import (
	"fmt"
	"math/bits"

	"alpusim/internal/params"
	"alpusim/internal/sim"
)

// Config sets the geometry and timing of a DRAM part.
type Config struct {
	Banks          int
	RowBytes       int64
	RowHitLatency  sim.Time
	RowMissLatency sim.Time
	BusyPerAccess  sim.Time // bank occupancy per access (serialisation)
}

// DefaultConfig returns the calibrated part from internal/params.
func DefaultConfig() Config {
	return Config{
		Banks:          params.DRAMBanks,
		RowBytes:       params.DRAMRowBytes,
		RowHitLatency:  params.DRAMRowHitLatency,
		RowMissLatency: params.DRAMRowMissLatency,
		BusyPerAccess:  params.DRAMBusyPerAccess,
	}
}

type bank struct {
	openRow   int64
	hasOpen   bool
	busyUntil sim.Time
}

// DRAM is a bank-interleaved open-row memory model. Bank count and row
// size are powers of two, so an address splits into bank and row with
// shifts and a mask.
type DRAM struct {
	cfg       Config
	banks     []bank
	rowShift  uint   // log2(RowBytes)
	bankShift uint   // log2(Banks)
	bankMask  uint64 // Banks-1

	// Stats.
	accesses uint64
	rowHits  uint64
	stalls   sim.Time
}

// New returns a DRAM with all rows closed. A zero bank count or row size
// takes the default (1 bank, 1024-byte rows); it panics on a bank count
// or row size that is not a power of two, since that is a configuration
// bug.
func New(cfg Config) *DRAM {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.RowBytes <= 0 {
		cfg.RowBytes = 1024
	}
	if cfg.Banks&(cfg.Banks-1) != 0 {
		panic(fmt.Sprintf("dram: %d banks is not a power of two", cfg.Banks))
	}
	if cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		panic(fmt.Sprintf("dram: row size %d is not a power of two", cfg.RowBytes))
	}
	return &DRAM{
		cfg:       cfg,
		banks:     make([]bank, cfg.Banks),
		rowShift:  uint(bits.TrailingZeros64(uint64(cfg.RowBytes))),
		bankShift: uint(bits.TrailingZeros(uint(cfg.Banks))),
		bankMask:  uint64(cfg.Banks - 1),
	}
}

// bankRow maps an address to its bank and row. Consecutive rows interleave
// across banks, the usual mapping for streaming-friendly parts.
func (d *DRAM) bankRow(addr uint64) (int, int64) {
	row := addr >> d.rowShift
	return int(row & d.bankMask), int64(row >> d.bankShift)
}

// Access models one line fill or writeback beginning at time now. It
// returns the total latency including any stall waiting for the bank.
func (d *DRAM) Access(now sim.Time, addr uint64) sim.Time {
	b, row := d.bankRow(addr)
	bk := &d.banks[b]
	d.accesses++

	start := now
	if bk.busyUntil > start {
		d.stalls += bk.busyUntil - start
		start = bk.busyUntil
	}

	var lat sim.Time
	if bk.hasOpen && bk.openRow == row {
		lat = d.cfg.RowHitLatency
		d.rowHits++
	} else {
		lat = d.cfg.RowMissLatency
		bk.openRow = row
		bk.hasOpen = true
	}
	bk.busyUntil = start + d.cfg.BusyPerAccess
	return (start + lat) - now
}

// WriteBack models a posted writeback drained from the controller's write
// buffer: it occupies the bank briefly but is scheduled around open-row
// traffic (row-coalesced), so it neither closes the open row nor adds to
// demand latency.
func (d *DRAM) WriteBack(now sim.Time, addr uint64) {
	b, _ := d.bankRow(addr)
	bk := &d.banks[b]
	d.accesses++
	start := now
	if bk.busyUntil > start {
		start = bk.busyUntil
	}
	bk.busyUntil = start + d.cfg.BusyPerAccess
}

// Accesses reports the total access count.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// RowHits reports how many accesses hit an open row.
func (d *DRAM) RowHits() uint64 { return d.rowHits }

// StallTime reports cumulative time spent waiting for busy banks.
func (d *DRAM) StallTime() sim.Time { return d.stalls }

// Reset closes all rows and clears bank occupancy (not statistics).
func (d *DRAM) Reset() {
	for i := range d.banks {
		d.banks[i] = bank{}
	}
}
