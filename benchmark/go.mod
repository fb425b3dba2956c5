module webfountain/benchmark

go 1.22

require webfountain v0.0.0

replace webfountain => ../
