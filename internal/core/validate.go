package core

import (
	"fmt"
	"runtime/debug"
)

// Validate runs the content tier of load validation now — posting-list
// varint framing and id ranges, key order, key and vector tail bits —
// for the opener of a loaded index to call before it shares the index
// with anyone: a heap open does, and leaves Open with an index that
// pays per query what a built one pays. Not for an index other
// goroutines already search; their first query validates (see
// ensureValidated), and a failed verdict stays with the index either
// way.
func (ix *Index) Validate() error {
	err := ix.ensureValidated()
	if err == nil {
		ix.deepPending = false
	}
	return err
}

// ensureValidated runs the content tier exactly once, before the first
// query of a loaded index whose opener left it pending (a mapped open;
// see Load). The pass reads every arena byte, so over a mapping it
// doubles as page warm-up: the first query pays the major faults a heap
// open paid at open. Corruption surfaces here as a sticky error every
// subsequent query repeats — a clean failure, never a fault, because
// Load's structural checks already proved every access in-bounds — and
// so does a mapped file cut short since the open (deepValidate).
//
// Every public query entry point calls this.
func (ix *Index) ensureValidated() error {
	if !ix.deepPending {
		return nil
	}
	if !ix.deepDone.Load() {
		ix.runDeepValidation()
	}
	return ix.deepErr
}

// runDeepValidation performs the single validation run; concurrent
// first queries serialize on deepMu and all but one find it done.
func (ix *Index) runDeepValidation() {
	ix.deepMu.Lock()
	defer ix.deepMu.Unlock()
	if !ix.deepDone.Load() {
		ix.deepErr = ix.deepValidate()
		ix.deepDone.Store(true)
	}
}

// deepValidate checks everything Load's structural tier could not
// without touching the data arenas. Partitions are independent, so
// the pass fans out over the build-side worker pool — on a cold
// mapping this parallelizes the page-in as well as the checking. It is
// the first pass to read every page of a mapping, so its workers run
// with memory faults made panics (debug.SetPanicOnFault): a page of a
// file truncated since it was mapped faults here, and the fault is this
// pass's verdict, not the process's end. A fault in a later query is not
// caught.
func (ix *Index) deepValidate() error {
	return ForEach(0, len(ix.inv)+1, func(i int) (err error) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if r := recover(); r != nil {
				f, fault := r.(interface{ Addr() uintptr })
				if !fault {
					panic(r)
				}
				err = fmt.Errorf("core: reading the index's arenas faulted at %#x: the file is shorter than its mapping", f.Addr())
			}
		}()
		if i == 0 {
			if err := ix.codes.CheckTails(); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			return nil
		}
		return validatePartition(ix.inv[i-1], i-1)
	})
}
