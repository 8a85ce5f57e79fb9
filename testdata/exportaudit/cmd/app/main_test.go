package main

import (
	"testing"

	"exportaudit/internal/lib"
)

func TestFixture(t *testing.T) {
	if lib.Fixture().Name() != "site:fixture" {
		t.Fatal("fixture site misnamed")
	}
}
