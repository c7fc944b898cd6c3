// Package app calls lib the way a binary would.
package app

import "fixture/internal/lib"

// Namer is an interface declared in the repository.
type Namer interface {
	Name() string
}

// Run calls lib.
func Run() Namer {
	lib.Used()
	return lib.NewShape()
}
