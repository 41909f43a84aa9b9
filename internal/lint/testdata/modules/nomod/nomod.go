// Package nomod sits in a directory without a go.mod: LoadModule must
// refuse it rather than guess a module path.
package nomod
