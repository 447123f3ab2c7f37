module msite/bench

go 1.24

require msite v0.0.0

replace msite => ../
