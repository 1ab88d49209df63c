// Package bucket implements the monotone bucket priority queue used by
// peeling algorithms (vertex k-core and triangle k-core decomposition).
//
// The queue holds items 0..n-1 with non-negative integer priorities. It is
// built once with counting sort in O(n + maxVal) time and supports two
// operations, both O(1): PopMin, which removes an item of minimum priority,
// and Dec, which decreases an un-popped item's priority by one. This is the
// classic array layout of Batagelj & Zaveršnik's O(|E|) k-core algorithm,
// which the paper cites as reference [21] and reuses in Algorithm 1
// ("bucket sort can be used as an optimization step here").
//
// The structure relies on the peeling invariant: Dec is only ever called on
// items whose priority is strictly greater than the priority of the most
// recently popped item. Peeling algorithms satisfy this by construction
// (they guard the decrement with a comparison, as in step 13 of
// Algorithm 1).
package bucket

import "fmt"

// Queue is a monotone bucket priority queue over items 0..n-1.
type Queue struct {
	vals     []int32 // current priority of each item
	arr      []int32 // items ordered by priority (mutated in place)
	pos      []int32 // pos[item] = index of item in arr
	binStart []int32 // binStart[v] = index in arr of the first item with priority v
	cur      int32   // next position in arr to pop; arr[:cur] are the popped items
}

// New builds a queue over items 0..len(vals)-1 with the given initial
// priorities. It panics on negative priorities.
func New(vals []int32) *Queue {
	n := int32(len(vals))
	maxVal := int32(0)
	for i, v := range vals {
		if v < 0 {
			panic(fmt.Sprintf("bucket: negative priority %d for item %d", v, i))
		}
		if v > maxVal {
			maxVal = v
		}
	}
	q := &Queue{
		vals:     make([]int32, n),
		arr:      make([]int32, n),
		pos:      make([]int32, n),
		binStart: make([]int32, maxVal+2),
	}
	copy(q.vals, vals)
	// Counting sort: count items per priority, then prefix-sum into bin
	// start offsets.
	counts := make([]int32, maxVal+2)
	for _, v := range vals {
		counts[v]++
	}
	start := int32(0)
	for v := int32(0); v <= maxVal+1; v++ {
		q.binStart[v] = start
		if v <= maxVal {
			start += counts[v]
		}
	}
	fill := append([]int32(nil), q.binStart...)
	for i := int32(0); i < n; i++ {
		v := vals[i]
		q.arr[fill[v]] = i
		q.pos[i] = fill[v]
		fill[v]++
	}
	return q
}

// Len returns the number of items remaining in the queue.
func (q *Queue) Len() int { return len(q.arr) - int(q.cur) }

// Val returns the current priority of item i (valid for popped items too:
// it is the priority the item had when popped).
func (q *Queue) Val(i int32) int32 { return q.vals[i] }

// Popped reports whether item i has been removed by PopMin.
func (q *Queue) Popped(i int32) bool { return q.pos[i] < q.cur }

// PopMin removes and returns an item with minimum priority. The second
// result is its priority; ok is false when the queue is empty.
func (q *Queue) PopMin() (item, val int32, ok bool) {
	if int(q.cur) >= len(q.arr) {
		return 0, 0, false
	}
	item = q.arr[q.cur]
	q.cur++
	return item, q.vals[item], true
}

// Drained returns the queue's own arrays once every item has been
// popped: the items in pop order, each item's index in that order, and
// each item's priority when it was popped. Popped items never move, and
// Dec touches only unpopped ones, so a drained queue holds exactly
// these. The queue must not be used afterwards. Drained panics if items
// remain.
func (q *Queue) Drained() (order, orderOf, vals []int32) {
	if q.Len() != 0 {
		panic(fmt.Sprintf("bucket: Drained with %d items left", q.Len()))
	}
	return q.arr, q.pos, q.vals
}

// Dec decreases the priority of item i by one, in O(1). It panics if the
// item has been popped, if its priority is already zero, or if the
// monotonicity invariant is violated (its priority is not strictly greater
// than that of the last popped item).
func (q *Queue) Dec(i int32) {
	if q.Popped(i) {
		panic(fmt.Sprintf("bucket: Dec on popped item %d", i))
	}
	v := q.vals[i]
	if v == 0 {
		panic(fmt.Sprintf("bucket: Dec below zero on item %d", i))
	}
	// Move i to the front slot of its bin, then shrink the bin from the
	// front so that the slot becomes the back of bin v-1.
	front := q.binStart[v]
	if front < q.cur {
		// All earlier slots are popped; the effective bin front is cur.
		// This happens when bins below v have been fully consumed.
		front = q.cur
		q.binStart[v] = front
	}
	j := q.arr[front]
	pi := q.pos[i]
	q.arr[front], q.arr[pi] = i, j
	q.pos[i], q.pos[j] = front, pi
	q.binStart[v]++
	q.vals[i] = v - 1
}
