package serve

// lru is the byte-budgeted least-recently-used list behind all three
// stores of this package: the RAM output cache, the placement-snapshot
// store and the disk tier's index. Each node carries its own byte size.
// What storing a node adds to bytes, and removing it frees, is charge's
// answer: its size unless the owner's values share pages (pageRefs).
// put never evicts: the owner calls evict when its rules say so, and
// learns what each eviction costs it through the victim callback. Not
// safe for concurrent use; each owner serializes access under its own
// mutex.
type lru[V any] struct {
	budget int64
	bytes  int64
	charge func(n *lruNode[V], d int) int64 // d is +1 on put, -1 on remove
	nodes  map[Key]*lruNode[V]
	head   *lruNode[V] // most recently used
	tail   *lruNode[V] // least recently used
}

// lruNode is one stored value. key, val and size never change once the
// node is stored, so a caller may read them after releasing its lock;
// the links belong to the lru.
type lruNode[V any] struct {
	key        Key
	val        V
	size       int64
	prev, next *lruNode[V]
}

func newLRU[V any](budget int64) *lru[V] {
	return &lru[V]{budget: budget, nodes: make(map[Key]*lruNode[V]),
		charge: func(n *lruNode[V], _ int) int64 { return n.size }}
}

// len returns the number of stored nodes.
func (l *lru[V]) len() int { return len(l.nodes) }

// peek returns the node stored under k without touching recency, or
// nil.
func (l *lru[V]) peek(k Key) *lruNode[V] { return l.nodes[k] }

// get returns the node stored under k, promoted to most recently used,
// or nil.
func (l *lru[V]) get(k Key) *lruNode[V] {
	n := l.nodes[k]
	if n != nil {
		l.unlink(n)
		l.pushFront(n)
	}
	return n
}

// put stores val under k as the most recently used node, replacing any
// node already stored under k, and returns the new node; size is what
// val costs when it shares nothing. A value larger than the whole
// budget is not stored and put returns nil: it would only evict
// everything else and then be evicted by the next insert.
func (l *lru[V]) put(k Key, val V, size int64) *lruNode[V] {
	if old := l.nodes[k]; old != nil {
		l.remove(old)
	}
	if size > l.budget {
		return nil
	}
	n := &lruNode[V]{key: k, val: val, size: size}
	l.nodes[k] = n
	l.pushFront(n)
	l.bytes += l.charge(n, 1)
	return n
}

// remove drops n and reports whether it was stored; a node already
// removed or replaced under its key is left alone.
func (l *lru[V]) remove(n *lruNode[V]) bool {
	if l.nodes[n.key] != n {
		return false
	}
	delete(l.nodes, n.key)
	l.unlink(n)
	l.bytes -= l.charge(n, -1)
	return true
}

// evict removes nodes from the cold end until the byte budget holds,
// passing each victim to victim after its removal. It never evicts
// keep (nil protects nothing), so it stops early when keep is the
// oldest node left.
func (l *lru[V]) evict(keep *lruNode[V], victim func(*lruNode[V])) {
	for l.bytes > l.budget && l.tail != nil && l.tail != keep {
		n := l.tail
		l.remove(n)
		victim(n)
	}
}

// each calls fn on every node, oldest first.
func (l *lru[V]) each(fn func(*lruNode[V])) {
	for n := l.tail; n != nil; n = n.prev {
		fn(n)
	}
}

func (l *lru[V]) pushFront(n *lruNode[V]) {
	n.prev, n.next = nil, l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lru[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if l.head == n {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if l.tail == n {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
