module natix/benchmark

go 1.22

require natix v0.0.0

replace natix => ../
