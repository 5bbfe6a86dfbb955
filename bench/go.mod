module castan/bench

go 1.22

require castan v0.0.0

replace castan => ../
