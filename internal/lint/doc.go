// Package lint holds the repository's source-level hygiene checks,
// enforced by `go test ./internal/lint` (CI's "Source lint" step
// alongside go vet). Each check is a go/ast walk in a test file, and a
// finding is a failure; neither has a suppression list.
//
//   - doccheck_test.go: every exported identifier of the public mixsoc
//     package, internal/core, internal/experiments and internal/service
//     carries a godoc comment, so the API surface the README points at —
//     and the HTTP wire types the service exposes — stay
//     self-describing.
//   - exports_test.go: every exported function, method, type and struct
//     field under internal/ has a caller in a non-test file outside its
//     own package (the root package, cmd/, examples/, the rest of
//     internal/ or the bench/ module), so the exported surface is the
//     used surface.
package lint
