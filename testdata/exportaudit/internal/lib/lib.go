// Package lib holds one exported name for each rule of the export audit
// (export_audit_test.go at the repository root).
package lib

// Site is named by no file outside lib. It is used all the same: NewSite,
// which cmd/app calls, returns it.
type Site struct{ name string }

// NewSite is called by cmd/app.
func NewSite(name string) *Site { return &Site{name: Internal(name)} }

// Name is called only through cmd/app's namer interface.
func (s *Site) Name() string { return s.name }

// Internal is named only inside lib: the audit says to unexport it.
func Internal(name string) string { return "site:" + name }

// Orphan is named by nothing: the audit says to delete it.
func Orphan() {}

// Probe is named only by lib's tests: the audit says to move it into a
// _test.go file.
func Probe(s *Site) string { return s.name }

// Fixture is named outside lib only by cmd/app's tests.
func Fixture() *Site { return NewSite("fixture") }
