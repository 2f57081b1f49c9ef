//go:build !amd64

package cpu

func kernelMissing() string { return "an AVX-512 kernel for this GOARCH" }

func pextMissing() string { return "a PEXT projector for this GOARCH" }
