package core

// NextObstacle exposes nextObstacle to the external tests.
var NextObstacle = nextObstacle
