module streambc/bench

go 1.23

require streambc v0.0.0

replace streambc => ../
