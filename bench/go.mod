module edgetune/bench

go 1.22

require edgetune v0.0.0

replace edgetune => ../
