//go:build !race

package mempool

// raceBuild: see race_on.go.
const raceBuild = false
