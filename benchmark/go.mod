// The benchmark is a module of its own so that it builds from its own
// directory; the import path under octopus/ is what lets it reach the
// parent module's internal packages.
module octopus/benchmark

go 1.24

require octopus v0.0.0

replace octopus => ../
