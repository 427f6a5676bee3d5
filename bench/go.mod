module myraft/bench

go 1.24

require myraft v0.0.0

replace myraft => ../
