package testbed

// AllocClasses returns the number of distinct flow classes in the
// engine's most recent allocation: tasks running the same parallelism
// setting collapse into one class each.
func (e *Engine) AllocClasses() int { return e.net.Classes() }

// TaskIDs returns the registered task IDs in insertion order.
func (e *Engine) TaskIDs() []string {
	ids := make([]string, 0, e.soa.len())
	for _, h := range e.order {
		if i := e.hslot[h]; i >= 0 {
			ids = append(ids, e.soa.task[i].ID())
		}
	}
	return ids
}

// CurrentRate returns the task's instantaneous (smoothed) throughput in
// bits/s, or 0 for unknown tasks.
func (e *Engine) CurrentRate(id string) float64 { return e.rateOf(e.Handle(id)) }

// CurrentLoss returns the task's latest loss estimate.
func (e *Engine) CurrentLoss(id string) float64 {
	if i := e.slotOf(e.Handle(id)); i >= 0 {
		return e.soa.loss[i]
	}
	return 0
}

// AggregateRate returns the sum of all tasks' instantaneous rates,
// accumulated in slot order so the float fold is deterministic.
func (e *Engine) AggregateRate() float64 {
	sum := 0.0
	for _, r := range e.soa.rate {
		sum += r
	}
	return sum
}

// init sizes the queue for handles 0..n-1 with storage of its own.
func (q *horizonQueue) init(n int) {
	q.carve(make([]int32, horizonBlock(n)), make([]float64, n))
}

func (q *horizonQueue) len() int { return q.n }

// PendingMutations returns how many scheduled mutations have not yet
// applied.
func (e *Engine) PendingMutations() int { return len(e.muts) - e.mutNext }

// Shards returns the number of shards.
func (ss *ShardSet) Shards() int { return len(ss.shards) }
