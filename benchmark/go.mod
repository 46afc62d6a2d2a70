module perfq/benchmark

go 1.21

require perfq v0.0.0

replace perfq => ../
