package testutil

import (
	"bytes"
	"math/rand"
)

// Periodic is n bytes of one random unit of the given period, repeated; the
// unit is seeded by the period, so an input is the same in every test that
// names it.
func Periodic(period, n int) []byte {
	unit := make([]byte, period)
	rand.New(rand.NewSource(int64(period))).Read(unit)
	return bytes.Repeat(unit, n/period+1)[:n]
}
