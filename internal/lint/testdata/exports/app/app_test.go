package app

import (
	"testing"

	"fixture/internal/lib"
)

func TestOnly(t *testing.T) { lib.TestOnly() }
