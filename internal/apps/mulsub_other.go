//go:build !amd64

package apps

// mulSub is documented in mulsub.go.
func mulSub(w, pv []uint32, mult uint32) { mulSubGeneric(w, pv, mult) }
