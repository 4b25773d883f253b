module wdsparql/benchmark

go 1.23

require wdsparql v0.0.0

replace wdsparql => ../
