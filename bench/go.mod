module ranbooster/bench

go 1.22

require ranbooster v0.0.0

replace ranbooster => ../
