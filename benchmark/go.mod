module fabricsharp/benchmark

go 1.22

require fabricsharp v0.0.0

replace fabricsharp => ../
