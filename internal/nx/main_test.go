package nx

import (
	"fmt"
	"os"
	"testing"

	"nxzip/internal/testutil"
)

// TestMain fails the package when, after every test has run, a goroutine
// that a function of the library started is still alive: this package
// starts two, the tail of a split compress and the checksum follower of a
// decompress, and neither may outlive its request.
func TestMain(m *testing.M) {
	code := m.Run()
	if left := testutil.LeftBehind(); len(left) > 0 {
		for _, g := range left {
			fmt.Fprintf(os.Stderr, "goroutine left behind:\n%s\n\n", g)
		}
		fmt.Fprintf(os.Stderr, "FAIL: %d goroutines left behind after the tests\n", len(left))
		code = 1
	}
	os.Exit(code)
}
