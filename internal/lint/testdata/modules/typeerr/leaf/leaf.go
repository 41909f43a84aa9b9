// Package leaf imports no module package and fails to type-check.
package leaf

// N is declared int but initialised with a string.
var N int = "not a number"
