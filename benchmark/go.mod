module geomds/benchmark

go 1.24

require geomds v0.0.0

replace geomds => ../
