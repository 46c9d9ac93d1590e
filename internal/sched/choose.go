package sched

import "fmt"

// Chooser picks which runnable thread the conductor resumes next. It is
// the controlled-scheduling hook for the model checker (internal/mc): a
// chooser that enumerates picks turns the simulator into a decision tree
// whose every leaf is one complete schedule.
//
// The runnable slice is presented in thread-ID order and is only valid
// for the duration of the call; Choose must return an index into it.
// Implementations must be deterministic — given the same runnable set at
// the same point of the same simulation they must return the same pick —
// or replay (and therefore DFS backtracking) breaks.
type Chooser interface {
	Choose(runnable []*Thread) int
}

// DefaultChooser is the production scheduling policy as a Chooser:
// lowest cycle count first, ties broken by lowest thread ID. It is the
// same total order Run's winner tree implements, so RunChoose(body,
// DefaultChooser{}) reproduces Run's schedule exactly (pinned
// byte-identical by TestChooseMatchesRunAndSlow) and is the reference
// conductor every differential oracle compares Run against.
type DefaultChooser struct{}

// Choose returns the index of the (cycles, id)-minimal runnable thread.
// Because runnable is in ID order, a strict cycles comparison suffices:
// the first thread at the minimal cycle count has the lowest ID.
func (DefaultChooser) Choose(runnable []*Thread) int {
	best := 0
	for i := 1; i < len(runnable); i++ {
		if runnable[i].cycles < runnable[best].cycles {
			best = i
		}
	}
	return best
}

// RunChoose executes body(thread) on every logical thread like Run, but
// delegates every scheduling decision to c. It uses the
// reference conductor shape — a coroutine handoff on every Tick, no
// inline fast path — so the chooser sees every yield point: the decision
// points presented to c are exactly the charged Tick/Stall yields plus
// body completions, which yieldlint (internal/lint) statically pins as
// the only places simulated shared memory may be touched.
//
// It panics on total deadlock (every live thread stalled) and on an
// out-of-range pick, both of which indicate bugs — in an engine and in a
// chooser respectively.
func (s *Sim) RunChoose(body func(*Thread), c Chooser) {
	live := s.start(body)
	runnable := make([]*Thread, 0, len(s.threads))
	for live > 0 {
		// Rebuild the runnable set in thread-ID order. The slice is
		// rebuilt rather than compacted so a chooser can never observe
		// an order that depends on the history of stalls.
		runnable = runnable[:0]
		for _, t := range s.threads {
			if !t.done && !t.stalled {
				runnable = append(runnable, t)
			}
		}
		if len(runnable) == 0 {
			panic("sched: deadlock — all live threads stalled")
		}
		pick := c.Choose(runnable)
		if pick < 0 || pick >= len(runnable) {
			panic(fmt.Sprintf("sched: chooser pick %d out of range [0,%d)", pick, len(runnable)))
		}
		next := runnable[pick]
		s.stats.CoroutineSwitches++
		if _, ok := next.resume(); !ok {
			next.done = true
			live--
		}
	}
}
