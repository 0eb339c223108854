module procctl/benchmark

go 1.22

require procctl v0.0.0

replace procctl => ../
