module sysml/benchmark

go 1.22

require sysml v0.0.0

replace sysml => ../
