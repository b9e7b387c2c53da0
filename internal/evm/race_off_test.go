//go:build !race

package evm

const race = false
