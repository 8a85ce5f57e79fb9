module dragonfly/bench

go 1.22

require dragonfly v0.0.0

replace dragonfly => ../
