//go:build !unix

package kerneltest

import "testing"

// AtPageEnd is plain make where there is no mmap to put a guard page behind
// the slice.
func AtPageEnd[T float32 | uint8](t testing.TB, n int) []T { return make([]T, n) }
