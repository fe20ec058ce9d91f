package serve

import (
	"slices"
	"testing"
)

// TestLRU pins the shared list's contract, which the output cache, the
// snapshot store and the disk tier's index each build their own
// eviction rules on. Every case starts from an empty list with a budget
// of 100 bytes.
func TestLRU(t *testing.T) {
	type op struct {
		do   string // put, get, remove, removeFirst (the id's first node), evict
		id   byte   // for evict: the id of the protected node, 0 for none
		size int64  // for put
		ok   bool   // put stored / get found / remove removed
	}
	cases := []struct {
		name    string
		ops     []op
		order   []byte // ids, oldest first
		bytes   int64
		victims []byte // in eviction order
	}{
		{
			name: "get promotes",
			ops: []op{
				{do: "put", id: 1, size: 40, ok: true},
				{do: "put", id: 2, size: 40, ok: true},
				{do: "get", id: 1, ok: true},
				{do: "get", id: 9},
				{do: "put", id: 3, size: 40, ok: true},
				{do: "evict", id: 3},
			},
			order: []byte{1, 3}, bytes: 80, victims: []byte{2},
		},
		{
			name: "same key replaces",
			ops: []op{
				{do: "put", id: 1, size: 40, ok: true},
				{do: "put", id: 2, size: 30, ok: true},
				{do: "put", id: 1, size: 50, ok: true},
				{do: "removeFirst", id: 1},
			},
			order: []byte{2, 1}, bytes: 80,
		},
		{
			name: "over-budget insert is rejected and evicts nothing",
			ops: []op{
				{do: "put", id: 1, size: 40, ok: true},
				{do: "put", id: 2, size: 101},
				{do: "evict"},
				{do: "get", id: 2},
			},
			order: []byte{1}, bytes: 40,
		},
		{
			name: "protected node is never evicted",
			ops: []op{
				{do: "put", id: 1, size: 60, ok: true},
				{do: "put", id: 2, size: 60, ok: true},
				{do: "evict", id: 1},
			},
			order: []byte{1, 2}, bytes: 120,
		},
		{
			name: "evict without a protected node",
			ops: []op{
				{do: "put", id: 1, size: 30, ok: true},
				{do: "put", id: 2, size: 30, ok: true},
				{do: "put", id: 3, size: 90, ok: true},
				{do: "evict"},
			},
			order: []byte{3}, bytes: 90, victims: []byte{1, 2},
		},
		{
			name: "remove",
			ops: []op{
				{do: "put", id: 1, size: 10, ok: true},
				{do: "put", id: 2, size: 20, ok: true},
				{do: "remove", id: 1, ok: true},
				{do: "removeFirst", id: 1},
			},
			order: []byte{2}, bytes: 20,
		},
		{
			name: "iteration runs oldest first",
			ops: []op{
				{do: "put", id: 1, size: 10, ok: true},
				{do: "put", id: 2, size: 10, ok: true},
				{do: "put", id: 3, size: 10, ok: true},
				{do: "get", id: 2, ok: true},
			},
			order: []byte{1, 3, 2}, bytes: 30,
		},
	}
	key := func(id byte) Key { return Key{id} }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLRU[int64](100)
			first := map[byte]*lruNode[int64]{}
			var victims []byte
			for i, o := range tc.ops {
				var ok bool
				switch o.do {
				case "put":
					n := l.put(key(o.id), o.size, o.size)
					if first[o.id] == nil {
						first[o.id] = n
					}
					ok = n != nil
				case "get":
					n := l.get(key(o.id))
					ok = n != nil
				case "remove":
					ok = l.remove(l.peek(key(o.id)))
				case "removeFirst":
					ok = l.remove(first[o.id])
				case "evict":
					l.evict(l.peek(key(o.id)), func(n *lruNode[int64]) {
						if l.peek(n.key) != nil {
							t.Errorf("victim %d still stored", n.key[0])
						}
						victims = append(victims, n.key[0])
					})
					continue
				}
				if ok != o.ok {
					t.Fatalf("op %d (%s %d): ok = %v, want %v", i, o.do, o.id, ok, o.ok)
				}
			}
			var order []byte
			var sum int64
			l.each(func(n *lruNode[int64]) {
				order = append(order, n.key[0])
				sum += n.size
			})
			if !slices.Equal(order, tc.order) || l.len() != len(tc.order) {
				t.Errorf("order %v (len %d), want %v", order, l.len(), tc.order)
			}
			if l.bytes != tc.bytes || sum != tc.bytes {
				t.Errorf("bytes %d (nodes sum to %d), want %d", l.bytes, sum, tc.bytes)
			}
			if !slices.Equal(victims, tc.victims) {
				t.Errorf("victims %v, want %v", victims, tc.victims)
			}
		})
	}
}
