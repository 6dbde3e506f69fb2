package workload

import (
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// Raytrace models 205_raytrace: a scene graph (spheres, lights, a BVH
// over them) is built once and lives for the whole run; rendering then
// allocates per-ray vectors, intersection records and shade contexts
// that die within a pixel. Paper Table 1: 15MB min heap, 127MB
// allocated. Survival in the render phase is near zero — generational
// and Beltway nurseries both excel here, which is why the paper's
// raytrace curves are flat and close (Figure 10(b)).
func Raytrace() *Benchmark {
	return &Benchmark{
		Name:           "raytrace",
		PaperMinHeapMB: 15,
		PaperAllocMB:   127,
		Body:           raytraceBody,
	}
}

func raytraceBody(c *Ctx) {
	m := c.M
	sphere := c.Types.DefineScalar("rt.sphere", 2, 8) // material ref, next, center+radius
	bvh := c.Types.DefineScalar("rt.bvh", 3, 6)       // left, right, leaf object
	material := c.Types.DefineScalar("rt.material", 1, 6)
	vec := c.Types.DefineScalar("rt.vec", 0, 3)
	isect := c.Types.DefineScalar("rt.isect", 2, 4) // hit object, normal vec
	shade := c.Types.DefineScalar("rt.shade", 3, 2) // isect, incoming vec, material
	scanline := c.Types.DefineWordArray("rt.scanline")

	bootImage(c, 32)

	// Scene: materials, spheres, and a BVH tree over them. Long-lived.
	nMat := c.N(24)
	mats := c.handles(nMat)
	for i := range mats {
		mats[i] = c.AllocLongLived(material, 0)
		m.SetData(mats[i], 0, uint32(i))
	}
	nSph := c.N(900)
	sphs := c.handles(nSph)
	for i := range sphs {
		sphs[i] = c.AllocLongLived(sphere, 0)
		m.SetRef(sphs[i], 0, mats[c.Rng.Intn(nMat)])
		for w := 0; w < 4; w++ {
			m.SetData(sphs[i], w, c.Rng.Uint32())
		}
	}
	root := buildBVH(m, bvh, sphs)

	// Render: width x height pixels, a handful of bounces per ray.
	width, height := 200, c.N(150)
	lines := c.handles(height)[:0]
	for y := 0; y < height; y++ {
		line := m.AllocGlobal(scanline, width)
		lines = append(lines, line)
		for x := 0; x < width; x++ {
			m.Push()
			origin := m.Alloc(vec, 0)
			dir := m.Alloc(vec, 0)
			m.SetData(dir, 0, uint32(x))
			m.SetData(dir, 1, uint32(y))
			color := uint32(0)
			bounces := 1 + c.Rng.Intn(3)
			for b := 0; b < bounces; b++ {
				// Traverse a random BVH path: read-only pointer chasing.
				m.Push()
				node := m.GetRef(root, c.Rng.Intn(2))
				steps := 0
				for node != gc.NilHandle && steps < 12 {
					if m.RefIsNil(node, 0) {
						break
					}
					node = m.GetRef(node, c.Rng.Intn(2))
					steps++
				}
				hit := m.Alloc(isect, 0)
				normal := m.Alloc(vec, 0)
				m.SetRef(hit, 1, normal)
				if node != gc.NilHandle && !m.RefIsNil(node, 2) {
					obj := m.GetRef(node, 2)
					m.SetRef(hit, 0, obj)
					sh := m.Alloc(shade, 0)
					m.SetRef(sh, 0, hit)
					m.SetRef(sh, 1, dir)
					m.SetRef(sh, 2, m.GetRef(obj, 0))
					color += m.GetData(sh, 0) + uint32(steps)
				}
				m.Pop()
				m.Work(steps + 4)
			}
			m.SetData(line, x, color^uint32(x*y))
			_ = origin
			m.Pop()
		}
	}
	// The image (scanlines) stays live to the end, as rendered output.
	_ = lines
}

// buildBVH builds a balanced binary tree of bvh nodes over sphs, the
// spheres at its leaves, and returns its root.
func buildBVH(m *vm.Mutator, bvh *heap.TypeDesc, sphs []gc.Handle) gc.Handle {
	n := m.AllocGlobal(bvh, 0)
	if len(sphs) <= 1 {
		m.SetRef(n, 2, sphs[0])
		return n
	}
	mid := len(sphs) / 2
	l := buildBVH(m, bvh, sphs[:mid])
	r := buildBVH(m, bvh, sphs[mid:])
	m.SetRef(n, 0, l)
	m.SetRef(n, 1, r)
	m.Release(l)
	m.Release(r)
	return n
}
