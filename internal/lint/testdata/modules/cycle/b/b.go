// Package b imports a, which imports b.
package b

import "loopmod/a"

// B reaches a.
var B = a.A
