package core

import (
	"fmt"

	"probe/internal/zorder"
)

// This file exports the z-prefix boundary arithmetic that names the
// key-space intervals a z-range sharded cluster assigns to nodes: slot
// s of 2^prefixBits equal z-prefix slots owns the contiguous interval
// of left-justified 64-bit z-keys whose top prefixBits bits equal s.
// The router (internal/router) consumes these instead of re-deriving
// the shifts.

// MaxPrefixBits caps prefix fan-out at 2^10 slots; beyond that the
// per-slot bookkeeping outweighs any conceivable win.
const MaxPrefixBits = 10

// ZRange is an inclusive interval [Lo, Hi] of left-justified 64-bit
// z-keys (zorder.Element.Bits / Grid.ShuffleKey values).
type ZRange struct {
	Lo uint64
	Hi uint64
}

// Contains reports whether z falls inside the interval.
func (r ZRange) Contains(z uint64) bool { return r.Lo <= z && z <= r.Hi }

// checkPrefixBits validates a prefix length shared by every exported
// entry point below.
func checkPrefixBits(prefixBits int) error {
	if prefixBits < 1 || prefixBits > MaxPrefixBits {
		return fmt.Errorf("core: prefix %d bits outside [1,%d]", prefixBits, MaxPrefixBits)
	}
	return nil
}

// PrefixSlots is the number of equal z-prefix slots prefixBits bits
// produce.
func PrefixSlots(prefixBits int) uint64 { return 1 << uint(prefixBits) }

// PrefixRange returns the z-key interval owned by slot of 2^prefixBits
// equal z-prefix slots: all 64-bit keys whose top prefixBits bits
// equal slot. Consecutive slots tile the key space exactly —
// PrefixRange(s+1).Lo == PrefixRange(s).Hi+1.
func PrefixRange(slot uint64, prefixBits int) (ZRange, error) {
	if err := checkPrefixBits(prefixBits); err != nil {
		return ZRange{}, err
	}
	if slot >= PrefixSlots(prefixBits) {
		return ZRange{}, fmt.Errorf("core: slot %d outside [0,%d)", slot, PrefixSlots(prefixBits))
	}
	shift := uint(zorder.MaxBits - prefixBits)
	lo := slot << shift
	return ZRange{Lo: lo, Hi: lo | (1<<shift - 1)}, nil
}

// SlotOfKey returns the index of the prefix slot containing the
// left-justified z-key: its top prefixBits bits.
func SlotOfKey(z uint64, prefixBits int) uint64 {
	return z >> uint(zorder.MaxBits-prefixBits)
}
