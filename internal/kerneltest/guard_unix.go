//go:build unix

package kerneltest

import (
	"syscall"
	"testing"
	"unsafe"
)

// AtPageEnd returns n elements of writable memory whose last byte is the
// last byte of a page, with an inaccessible page after it: a kernel that
// reads or writes even one byte past the slice faults instead of passing.
// Off unix it is plain make.
func AtPageEnd[T float32 | uint8](t testing.TB, n int) []T {
	t.Helper()
	page := syscall.Getpagesize()
	size := n * int(unsafe.Sizeof(*new(T)))
	pages := (size+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, pages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("kerneltest: mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	end := (pages - 1) * page
	if err := syscall.Mprotect(mem[end:], syscall.PROT_NONE); err != nil {
		t.Fatalf("kerneltest: mprotect: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[end-size])), n)
}
