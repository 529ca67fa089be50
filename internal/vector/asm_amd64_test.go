package vector

// withoutAsm runs f on the portable loops: it clears the package's one
// dispatch variable for the duration of f.
func withoutAsm(f func()) {
	defer func(old bool) { useAsm = old }(useAsm)
	useAsm = false
	f()
}
