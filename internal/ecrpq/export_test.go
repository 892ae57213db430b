package ecrpq

// Hooks for the external test package (it imports internal/workload, which
// imports this package through internal/cxrpq).

// SetSupportReads switches off (or back on) answering an atom with an
// endpoint nothing reads from its support — in the executor's steps, the
// frontier pass and the Yannakakis program — and returns the previous
// setting. Off, every such atom is listed as before.
func SetSupportReads(on bool) (was bool) {
	was, supportReads = supportReads, on
	return was
}
