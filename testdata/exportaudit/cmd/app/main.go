// Command app is the fixture module's program: it calls lib.NewSite and
// reaches Site.Name only through an interface of its own.
package main

import (
	"fmt"

	"exportaudit/internal/lib"
)

type namer interface{ Name() string }

func main() {
	var n namer = lib.NewSite("a")
	fmt.Println(n.Name())
}
