//go:build !race

package fh

const poison = false
