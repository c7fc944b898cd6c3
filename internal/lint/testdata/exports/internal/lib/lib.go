// Package lib declares the exports the export lint is checked against.
package lib

// Result is reached only through Used's result type.
type Result struct {
	Count int
}

// Used is called from app.
func Used() *Result { return &Result{} }

// Shape satisfies app.Namer through Name, which no file calls by name.
type Shape struct{}

// Name implements app.Namer.
func (Shape) Name() string { return "shape" }

// NewShape is called from app.
func NewShape() Shape { return Shape{} }

// Wire is a json-tagged wire schema that no caller names.
type Wire struct {
	Field int `json:"field"`
}

// NoCaller is used by nothing.
func NoCaller() {}

// TestOnly is used only by a _test.go file of app.
func TestOnly() {}
