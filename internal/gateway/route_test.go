package gateway

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestRouteIsFNV1a: the routing hash is hash/fnv's 32-bit FNV-1a taken
// modulo the pool, on the service names the federation uses and on arbitrary
// strings, and the index is in [0, n) — also where int is 32 bits wide and
// half of the hashes do not fit in it.
func TestRouteIsFNV1a(t *testing.T) {
	want := func(s string, n int) int {
		h := fnv.New32a()
		h.Write([]byte(s))
		return int(h.Sum32() % uint32(n))
	}
	names := []string{"", "ramsesZoom2"}
	for i := 0; i < 64; i++ {
		names = append(names, fmt.Sprintf("svc%03d", i))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		names = append(names, string(b))
	}
	for _, name := range names {
		for _, n := range []int{1, 2, 4, 7, 1 << 20} {
			got := Route(name, n)
			if got < 0 || got >= n {
				t.Fatalf("Route(%q, %d) = %d, outside [0, %d)", name, n, got, n)
			}
			if got != want(name, n) {
				t.Fatalf("Route(%q, %d) = %d, hash/fnv gives %d", name, n, got, want(name, n))
			}
		}
	}
}
