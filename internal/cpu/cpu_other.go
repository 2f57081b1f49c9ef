//go:build !amd64

package cpu

func scanKernelMissing() string { return "a within-τ kernel for this GOARCH" }

func pextMissing() string { return "a PEXT projector for this GOARCH" }
