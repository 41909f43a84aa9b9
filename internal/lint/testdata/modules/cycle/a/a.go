// Package a imports b, which imports a.
package a

import "loopmod/b"

// A reaches b.
var A = b.B
