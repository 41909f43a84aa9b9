// Package top imports the broken leaf; its load is skipped, so the
// leaf's error is the one reported.
package top

import "typeerr/leaf"

// M depends on the broken leaf.
var M = leaf.N
