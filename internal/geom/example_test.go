package geom_test

import (
	"fmt"

	"dragonfly/internal/geom"
)

// ExampleGrid_AppendTilesInCap lists how many tiles of the paper's 12x12
// grid a viewport-sized cap touches, looking straight ahead.
func ExampleGrid_AppendTilesInCap() {
	grid := geom.NewGrid(12, 12)
	forward := geom.Orientation{Yaw: 0, Pitch: 0}
	tiles := grid.AppendTilesInCap(nil, forward, geom.DefaultViewport.RadiusDeg)
	fmt.Printf("a %v-degree viewport cap touches %d of %d tiles\n",
		geom.DefaultViewport.RadiusDeg, len(tiles), grid.NumTiles())
	// Output:
	// a 50-degree viewport cap touches 28 of 144 tiles
}

// ExampleRoISet_LocationScore shows the location score falling off from the
// viewport center to the periphery (paper §3.1).
func ExampleRoISet_LocationScore() {
	grid := geom.NewGrid(12, 12)
	center := geom.Orientation{Yaw: 0, Pitch: 0}
	atCenter := grid.TileAt(center)
	atEdge := grid.TileAt(geom.Orientation{Yaw: 55, Pitch: 0})
	outside := grid.TileAt(geom.Orientation{Yaw: 170, Pitch: 0})
	fmt.Printf("center tile: %.2f\n", geom.DefaultRoIs.LocationScore(grid, atCenter, center))
	fmt.Printf("edge tile:   %.2f\n", geom.DefaultRoIs.LocationScore(grid, atEdge, center))
	fmt.Printf("behind user: %.2f\n", geom.DefaultRoIs.LocationScore(grid, outside, center))
	// Output:
	// center tile: 2.75
	// edge tile:   1.69
	// behind user: 0.00
}

// ExampleSharedTable shows the table-driven fast path for location
// scores: resolve the process-wide table for a grid geometry, pick the
// plane for an RoI set, then answer per-tile queries from a lookup instead
// of re-sampling the sphere. The lookup agrees with the exact LocationScore
// up to the table's quantization (see TestOverlapTableAccuracy).
func ExampleSharedTable() {
	grid := geom.NewGrid(12, 12)
	table := geom.SharedTable(grid, geom.TableParams{}) // default quantization
	plane := table.RoIPlane(geom.DefaultRoIs)

	center := geom.Orientation{Yaw: 0, Pitch: 0}
	lookup := plane.Lookup(center) // hoist out of per-tile loops
	tile := grid.TileAt(center)
	fmt.Printf("table:  %.2f\n", lookup.Overlap(tile))
	fmt.Printf("exact:  %.2f\n", geom.DefaultRoIs.LocationScore(grid, tile, center))
	fmt.Printf("tiles in outer cap: %d\n", len(lookup.AppendTiles(nil)))
	// Output:
	// table:  2.75
	// exact:  2.75
	// tiles in outer cap: 42
}

// ExampleYawDelta demonstrates shortest-arc yaw differences across the
// ±180 wrap.
func ExampleYawDelta() {
	fmt.Println(geom.YawDelta(170, -170))
	fmt.Println(geom.YawDelta(-170, 170))
	// Output:
	// 20
	// -20
}
