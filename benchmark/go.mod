module ppsim/benchmark

go 1.22

require ppsim v0.0.0

replace ppsim => ../
