// Package router is the cluster coordination layer: zrouted's scatter-
// gather core. A Router owns a z-range shard map — contiguous z-prefix
// intervals assigned to probed shards — speaks the ordinary wire
// protocol on its front side, and fans requests out to per-shard
// client.Conn pools on its back side: point ops go to the owning
// shard, range/join work is clipped to intersecting shards, and the
// shards' z-sorted result streams are gathered back into one in shard
// order, which is z order, so a client cannot distinguish the cluster
// from a single node. Reads fail over to caught-up replicas
// (internal/repl) when a primary dies; docs/cluster.md is the operator
// reference.
package router

import (
	"bytes"
	"encoding/json"
	"fmt"

	"probe/internal/core"
	"probe/internal/zorder"
)

// MapVersion is the shard-map format version this build writes and
// accepts.
const MapVersion = 1

// ShardDef is one shard's slice of the key space and its addresses.
// Slots is the inclusive interval [first, last] of z-prefix slots
// (2^PrefixBits equal slots, core.PrefixRange arithmetic) the shard
// owns; Primary serves reads and writes, Replicas serve reads when
// caught up.
type ShardDef struct {
	Slots    [2]uint64 `json:"slots"`
	Primary  string    `json:"primary"`
	Replicas []string  `json:"replicas,omitempty"`
}

// Map is the cluster's routing table: who owns which contiguous
// z-prefix interval. The JSON encoding is the on-disk/on-flag format
// zrouted consumes, stable field-for-field so maps round-trip
// byte-identically.
type Map struct {
	Version    int        `json:"version"`
	PrefixBits int        `json:"prefix_bits"`
	Shards     []ShardDef `json:"shards"`
}

// BuildEvenMap assigns 2^prefixBits prefix slots to the primaries in
// contiguous near-equal runs, in order: the canonical starting map for
// a fresh cluster. replicas[i] (when the slice is non-nil) lists shard
// i's replicas.
func BuildEvenMap(prefixBits int, primaries []string, replicas [][]string) (*Map, error) {
	if len(primaries) == 0 {
		return nil, fmt.Errorf("router: no shard addresses")
	}
	if err := checkPrefix(prefixBits); err != nil {
		return nil, err
	}
	slots := core.PrefixSlots(prefixBits)
	n := uint64(len(primaries))
	if slots < n {
		return nil, fmt.Errorf("router: %d prefix slots cannot cover %d shards", slots, n)
	}
	m := &Map{Version: MapVersion, PrefixBits: prefixBits}
	var next uint64
	for i, addr := range primaries {
		// Distribute the remainder one slot at a time so shard sizes
		// differ by at most one slot.
		count := slots / n
		if uint64(i) < slots%n {
			count++
		}
		def := ShardDef{Slots: [2]uint64{next, next + count - 1}, Primary: addr}
		if replicas != nil && i < len(replicas) {
			def.Replicas = replicas[i]
		}
		m.Shards = append(m.Shards, def)
		next += count
	}
	return m, m.Validate()
}

func checkPrefix(prefixBits int) error {
	if prefixBits < 1 || prefixBits > core.MaxPrefixBits {
		return fmt.Errorf("router: prefix %d bits outside [1,%d]", prefixBits, core.MaxPrefixBits)
	}
	return nil
}

// DefaultPrefixBits picks a prefix length for n shards: enough slots
// that an even split leaves at most ~12%% imbalance, capped at the
// partition bound.
func DefaultPrefixBits(n int) int {
	bits := 1
	for (1 << bits) < 4*n {
		bits++
	}
	if bits > core.MaxPrefixBits {
		bits = core.MaxPrefixBits
	}
	return bits
}

// Validate checks the structural invariants routing relies on: a known
// version, a legal prefix length, and shards whose slot intervals
// tile [0, 2^PrefixBits) exactly — no gaps, no overlaps — each with a
// primary address.
func (m *Map) Validate() error {
	if m.Version != MapVersion {
		return fmt.Errorf("router: shard map version %d, want %d", m.Version, MapVersion)
	}
	if err := checkPrefix(m.PrefixBits); err != nil {
		return err
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("router: shard map has no shards")
	}
	var next uint64
	for i, s := range m.Shards {
		if s.Primary == "" {
			return fmt.Errorf("router: shard %d has no primary address", i)
		}
		if s.Slots[0] != next {
			return fmt.Errorf("router: shard %d starts at slot %d, want %d (gap or overlap)", i, s.Slots[0], next)
		}
		if s.Slots[1] < s.Slots[0] {
			return fmt.Errorf("router: shard %d has inverted slots %v", i, s.Slots)
		}
		next = s.Slots[1] + 1
	}
	if next != core.PrefixSlots(m.PrefixBits) {
		return fmt.Errorf("router: shards cover %d slots, want %d", next, core.PrefixSlots(m.PrefixBits))
	}
	return nil
}

// Range returns the contiguous z-key interval shard i owns: the union
// of the core.PrefixRange intervals of its first and last slot.
func (m *Map) Range(i int) (core.ZRange, error) {
	s := m.Shards[i]
	lo, err := core.PrefixRange(s.Slots[0], m.PrefixBits)
	if err != nil {
		return core.ZRange{}, err
	}
	hi, err := core.PrefixRange(s.Slots[1], m.PrefixBits)
	if err != nil {
		return core.ZRange{}, err
	}
	return core.ZRange{Lo: lo.Lo, Hi: hi.Hi}, nil
}

// OwnerOf returns the index of the shard owning the left-justified
// z-key.
func (m *Map) OwnerOf(z uint64) int {
	slot := core.SlotOfKey(z, m.PrefixBits)
	for i, s := range m.Shards {
		if slot >= s.Slots[0] && slot <= s.Slots[1] {
			return i
		}
	}
	// Validate guarantees full coverage; unreachable on a validated map.
	return len(m.Shards) - 1
}

// Cover returns the indices of the shards that own at least one pixel
// of the box [lo, hi], lo at most hi in every dimension, in shard
// order: the one rule RANGE, EXPLAIN, JOIN and NEAREST's second phase
// route a box by. The z-interval of the box's corners names the
// candidates, and its two ends own the corners.
// A shard between them is kept only when the box's first pixel at or
// above the shard's lowest key (the paper's BigMin) is still the
// shard's, because a tall thin box spans in z shards it never touches.
func (m *Map) Cover(g zorder.Grid, lo, hi []uint32) []int {
	first, last := m.OwnerOf(g.ShuffleKey(lo)), m.OwnerOf(g.ShuffleKey(hi))
	out := make([]int, 1, last-first+1)
	out[0] = first
	box := g.BoxKeys(lo, hi)
	for i := first + 1; i < last; i++ {
		rg, _ := m.Range(i) // cannot fail on a validated map
		if z, ok := box.BigMin(rg.Lo); ok && z <= rg.Hi {
			out = append(out, i)
		}
	}
	if last > first {
		out = append(out, last)
	}
	return out
}

// Encode renders the map as indented JSON — the stable interchange
// format: decode∘encode is the identity on bytes.
func (m *Map) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeMap parses and validates a shard map.
func DecodeMap(data []byte) (*Map, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Map
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("router: decoding shard map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
