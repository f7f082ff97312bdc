module lipstick/bench

go 1.24

require lipstick v0.0.0

replace lipstick => ../
