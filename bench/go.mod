module probe/bench

go 1.22

require probe v0.0.0

replace probe => ../
