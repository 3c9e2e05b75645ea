package nxzip

import (
	"slices"
	"sync"
)

// wave is the one place the root package runs pieces of a stream side by
// side. The paper's throughput comes from many requests in flight against
// one receive FIFO, on the one condition that the pieces do not depend on
// each other's output: gzip members (Writer, ParallelWriter), history
// segments (StreamWriter) and the hinted members of a stream being read
// (Reader) all meet it, and all run through here (DESIGN 5q). J is one
// piece and the buffers its result lands in, which a wave value keeps from
// one job, and one run, to the next.
type wave[J any] struct {
	slots []waveSlot[J]
	lanes sync.WaitGroup // a run's goroutines
}

type waveSlot[J any] struct {
	job  J
	err  error         // what do made of it
	done chan struct{} // job and err are set
}

// run makes cut(j, i) of each job i < n in turn, hands it to do on one of
// width lanes — a lane is one goroutine, so what do reaches through its
// lane number it has to itself — and calls emit on the caller's goroutine
// in job order, stopping at the first error from either. It returns how
// many jobs were emitted before that, once every goroutine it started has
// exited; with one lane or one job it starts none, and the caller is lane
// 0. A wave that failed is not run again — the jobs behind the failure
// leave their completions in its slots — which suits its callers: each
// keeps the error and ends the stream.
func (w *wave[J]) run(n, width int, cut func(j *J, i int), do func(lane int, j *J) error, emit func(j *J) error) (emitted int, err error) {
	width = max(1, min(width, n))
	// Every lane busy and the jobs that finished early waiting behind the
	// oldest — the role the FIFO's depth plays on the device; a slot is
	// free again once its job is emitted.
	depth := 2*width - 1
	if grow := depth - len(w.slots); grow > 0 {
		w.slots = slices.Grow(w.slots, grow)
		for range grow {
			w.slots = append(w.slots, waveSlot[J]{done: make(chan struct{}, 1)})
		}
	}
	var work chan *waveSlot[J]
	if width > 1 {
		work = make(chan *waveSlot[J], width-1) // with a job in each lane's hands, room for every slot
		w.lanes.Add(width)
		for lane := 0; lane < width; lane++ {
			go func(work <-chan *waveSlot[J]) {
				defer w.lanes.Done()
				for s := range work {
					s.err = do(lane, &s.job)
					s.done <- struct{}{}
				}
			}(work)
		}
	}
	for next := 0; emitted < n; emitted++ {
		for ; next < n && next-emitted < depth; next++ {
			s := &w.slots[next%depth]
			cut(&s.job, next)
			if work != nil {
				work <- s
			} else {
				s.err = do(0, &s.job)
				s.done <- struct{}{}
			}
		}
		s := &w.slots[emitted%depth]
		if <-s.done; s.err == nil {
			s.err = emit(&s.job)
		}
		if err = s.err; err != nil {
			break
		}
	}
	if work != nil {
		close(work) // a failed wave's lanes still run what they were handed
		w.lanes.Wait()
	}
	return emitted, err
}
