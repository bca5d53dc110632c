module github.com/cercs/iqrudp/bench

go 1.24

require github.com/cercs/iqrudp v0.0.0

replace github.com/cercs/iqrudp => ../
