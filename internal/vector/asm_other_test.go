//go:build !amd64

package vector

// withoutAsm runs f: off amd64 the portable loops are all there is.
func withoutAsm(f func()) { f() }
