//go:build !amd64 || noasm

package cpu

func hasAVX2() bool { return false }
